//===- libm/BatchKernelsAVX2.cpp - AVX2+FMA batch kernels -----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hand-written AVX2+FMA kernels for the batch API: all three stages of
// RangeReduction.h -- range reduction, table lookup, polynomial
// evaluation, output compensation -- across four double lanes, with a lane
// mask that routes every input off the pure polynomial path (NaN, inf,
// overflow/underflow thresholds, small inputs, table-exact cases, and the
// generated special-case list) through the per-call scalar core.
//
// The non-negotiable invariant is that every lane's H is bit-identical to
// the scalar core's. The argument, lane by lane:
//
//  * Fallback lanes call the scalar core itself -- identical trivially.
//  * Vector lanes mirror the scalar code's *compiled* operation sequence,
//    including the FMA contractions GCC applies to the scalar sources at
//    -O2 -mfma -ffp-contract=fast (the project default): the Cody-Waite
//    subtractions compile to vfnmadd (confirmed by disassembly of the
//    shipped cores), and every Horner / Estrin / Estrin+FMA step
//    A + B*x is a single fused multiply-add. Where an operation's
//    contraction is value-neutral (the product is exact: K*CWHi, the
//    2^-23 / 2^-5 scalings in the log reduction, 2^n scaling) either
//    encoding gives the same bits; where it is not (K*CWLo, the
//    polynomial steps) this file uses the fused intrinsic explicitly.
//  * Knuth's adapted forms compile with *mixed* contraction that GCC
//    chooses per call site; the Knuth kernels below mirror the compiled
//    sequences read off the shipped cores' disassembly (the contraction
//    map is documented at knuthEvalV), and because that mirror is
//    compiler-specific the dispatcher re-proves it at set resolution with
//    a one-time parity probe, demoting a mismatching Knuth kernel back to
//    the scalar loop. See DESIGN.md, "Batch evaluation layer".
//
// BatchParityTest pins the invariant over strided full-bit-space sweeps
// and dense boundary windows; `bench_batch --verify` sweeps 2^28+ points
// per function.
//
// This is libm's only TU compiled with -mavx2 (src/CMakeLists.txt), so it
// deliberately avoids odr-using any inline function from the shared
// headers: the linker may keep either TU's copy of an inline symbol, and a
// copy compiled with AVX2 enabled must never be reachable on a baseline
// machine. Everything here is namespace-local; only constexpr *data* (the
// reduction tables) is shared. The rounding kernels at the end of the file
// (the vector tier behind libm::roundBatch, built on fp/RoundLanes.h's
// internal-linkage round4) take the format as two integers rather than an
// FPFormat, so they too odr-use nothing from the shared headers.
//
// The coefficient tables are NOT fetched through the runtime accessors the
// scalar dispatcher uses: each kernel binds its generated tables as
// constant-expression template arguments (this TU includes its own
// internal-linkage copies of the generated .inc data below), so piece
// counts, degrees, and the special-case list constant-fold and each
// kernel compiles to a straight-line vector loop. Routing the same tables
// through detail::batchTablesFor() instead leaves every degree switch and
// piece-count branch live at runtime and costs ~1.6x on the exp kernels.
//
//===----------------------------------------------------------------------===//

// GCC's gather intrinsics seed the masked-lane source with
// _mm256_undefined_pd(), which -Wmaybe-uninitialized flags inside
// avx2intrin.h (a known false positive; every lane of our gathers is
// unmasked).
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

// This TU's own copies of the generated tables (internal linkage; the
// bytes are identical to the ones Functions.cpp builds the scalar cores
// from -- both include the same generated files). Having them visible as
// constant expressions is what lets the kernels below take them as
// template arguments and fold every table-shape branch.
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

inline __m256d broadcast(double V) { return _mm256_set1_pd(V); }

/// Widens a 4x32-bit lane mask (from integer compares) to a 4x64-bit
/// double mask via sign extension.
inline __m256d widenMask(__m128i M32) {
  return _mm256_castsi256_pd(_mm256_cvtepi32_epi64(M32));
}

//===----------------------------------------------------------------------===//
// Coefficient access
//===----------------------------------------------------------------------===//

/// Per-block coefficient selector. Multi-piece tables with a 4-wide SoA
/// row (every current multi-piece table: exp with 2 pieces, log10 with 4)
/// precompute vpermps lane indices {2p, 2p+1} once, so each coefficient
/// fetch is one aligned 32-byte row load plus one cross-lane permute
/// (~1 cycle throughput) instead of a vgatherdpd (~4-6 cycles) -- the
/// gathers, not the polynomial math, dominated the multi-piece kernels.
/// The raw piece indices remain for the gather fallback (PiecePad != 4).
template <const BatchSchemeTable &B> struct CoeffSel {
  __m128i Piece;
  __m256i Perm;
};

template <const BatchSchemeTable &B>
inline CoeffSel<B> makeSel(__m128i Piece) {
  CoeffSel<B> S;
  S.Piece = Piece;
  S.Perm = _mm256_undefined_si256();
  if constexpr (B.NumPieces > 1 && B.PiecePad == 4) {
    __m256i Twice = _mm256_slli_epi64(_mm256_cvtepi32_epi64(Piece), 1);
    S.Perm = _mm256_or_si256(
        Twice,
        _mm256_slli_epi64(_mm256_add_epi64(Twice, _mm256_set1_epi64x(1)), 32));
  }
  return S;
}

/// Coefficient I for each lane's piece: a broadcast when the table has a
/// single piece, a row load + permute when the row is 4 wide, otherwise
/// one 4-lane gather from the SoA row. B is a constant expression, so the
/// shape tests fold away.
template <const BatchSchemeTable &B>
inline __m256d coeff(int I, const CoeffSel<B> &S) {
  const double *Row = B.CoeffsSoA + I * B.PiecePad;
  if constexpr (B.NumPieces == 1)
    return _mm256_set1_pd(Row[0]);
  else if constexpr (B.PiecePad == 4)
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(
        _mm256_castpd_ps(_mm256_load_pd(Row)), S.Perm));
  else
    return _mm256_i32gather_pd(Row, S.Piece, 8);
}

//===----------------------------------------------------------------------===//
// Polynomial evaluation (mirrors poly/EvalScheme.h as compiled)
//===----------------------------------------------------------------------===//

/// hornerN as compiled: every Acc*X + C step is one fma.
template <const BatchSchemeTable &B, unsigned Degree>
inline __m256d hornerNV(const CoeffSel<B> &Sel, __m256d X) {
  __m256d Acc = coeff<B>(Degree, Sel);
  for (unsigned I = Degree; I-- > 0;)
    Acc = _mm256_fmadd_pd(Acc, X, coeff<B>(I, Sel));
  return Acc;
}

/// estrinFMAN / estrinN as compiled: identical operation order (the
/// contraction of estrinN's A + B*y steps makes the two schemes compile to
/// the same instruction sequence; their coefficient *tables* still differ,
/// which is why both scheme slots exist). The recursion mirrors the
/// scalar generic template's loop, whose order equals the hand-unrolled
/// specializations -- but unrolls at compile time: GCC at -O2 keeps the
/// runtime while/for form as an actual loop with V spilled to the stack,
/// which costs the Estrin kernels ~40% throughput.
template <const BatchSchemeTable &B, unsigned Degree, unsigned I = 0>
inline void loadCoeffsV(__m256d *V, const CoeffSel<B> &Sel) {
  if constexpr (I <= Degree) {
    V[I] = coeff<B>(static_cast<int>(I), Sel);
    loadCoeffsV<B, Degree, I + 1>(V, Sel);
  }
}

/// One pair-combination round at width N: V[I] = V[2I+1]*Y + V[2I] for
/// each pair (odd leftover copied down), exactly the generic loop's body.
template <unsigned N, unsigned I = 0>
inline void estrinRoundV(__m256d *V, __m256d Y) {
  if constexpr (I <= N / 2) {
    if constexpr (2 * I + 1 <= N)
      V[I] = _mm256_fmadd_pd(V[2 * I + 1], Y, V[2 * I]);
    else
      V[I] = V[2 * I];
    estrinRoundV<N, I + 1>(V, Y);
  }
}

template <unsigned N>
inline void estrinLevelsV(__m256d *V, __m256d Y) {
  if constexpr (N >= 1) {
    estrinRoundV<N>(V, Y);
    estrinLevelsV<N / 2>(V, _mm256_mul_pd(Y, Y));
  }
}

template <const BatchSchemeTable &B, unsigned Degree>
inline __m256d estrinFMANV(const CoeffSel<B> &Sel, __m256d X) {
  __m256d V[Degree + 1];
  loadCoeffsV<B, Degree>(V, Sel);
  estrinLevelsV<Degree>(V, X);
  return V[0];
}

template <EvalScheme S, const BatchSchemeTable &B, unsigned Degree>
inline __m256d evalDegree(const CoeffSel<B> &Sel, __m256d X) {
  if constexpr (S == EvalScheme::Horner)
    return hornerNV<B, Degree>(Sel, X);
  else
    return estrinFMANV<B, Degree>(Sel, X);
}

/// Largest per-piece degree in a mixed-degree table.
template <const BatchSchemeTable &B> constexpr unsigned maxDegreeOf() {
  unsigned M = 0;
  for (int P = 0; P < B.NumPieces; ++P)
    if (static_cast<unsigned>(B.Degrees[P]) > M)
      M = static_cast<unsigned>(B.Degrees[P]);
  return M;
}

/// Whether evaluating every piece at maxDegreeOf() is bit-exact: the SoA
/// rows above a piece's own degree must be zero (so the padded steps are
/// fma(0, y, c) == c and fma(0, y^k, V0) == V0), and each piece's leading
/// coefficient must be nonzero (c + 0 == c requires c != 0 to preserve a
/// negative-zero c; the polynomial value itself never lands on -0 over the
/// reduced domains, which the dense --verify sweep confirms empirically).
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

/// One blend step of the mixed-degree path: evaluate distinct degree K
/// over all lanes (skipped when no lane has it) and blend it in.
template <EvalScheme S, const BatchSchemeTable &B, int K>
inline void mixedDegreeStep(__m128i LaneDeg, const CoeffSel<B> &Sel, __m256d X,
                            __m256d &R) {
  if constexpr (K < B.NumDistinctDegrees) {
    constexpr int D = B.DistinctDegrees[K];
    __m256d M = widenMask(_mm_cmpeq_epi32(LaneDeg, _mm_set1_epi32(D)));
    if (_mm256_movemask_pd(M))
      R = _mm256_blendv_pd(
          R, evalDegree<S, B, static_cast<unsigned>(D)>(Sel, X), M);
    mixedDegreeStep<S, B, K + 1>(LaneDeg, Sel, X, R);
  }
}

/// Per-lane polynomial: single path for uniform-degree tables. For mixed
/// degrees (log10: {4,4,4,3}), prefer evaluating every lane at the max
/// degree through the zero-padded SoA rows -- one extra exact fma on the
/// short-degree lanes instead of a lane-degree gather plus one blended
/// evaluation per distinct degree. The blend path remains for tables
/// whose padding is not provably exact. The table shape is a constant
/// expression, so each case compiles to one unrolled evaluator with no
/// degree dispatch.
template <EvalScheme S, const BatchSchemeTable &B>
inline __m256d evalPolyV(__m128i Piece, __m256d X) {
  CoeffSel<B> Sel = makeSel<B>(Piece);
  if constexpr (B.UniformDegree != 0) {
    return evalDegree<S, B, static_cast<unsigned>(B.UniformDegree)>(Sel, X);
  } else if constexpr (padIsExact<B>()) {
    return evalDegree<S, B, maxDegreeOf<B>()>(Sel, X);
  } else {
    __m128i LaneDeg = _mm_i32gather_epi32(B.Degrees, Piece, 4);
    __m256d R = _mm256_setzero_pd();
    mixedDegreeStep<S, B, 0>(LaneDeg, Sel, X, R);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Range reduction
//===----------------------------------------------------------------------===//

/// Reduction context for four lanes. On lanes where Ok is clear, T / N / J
/// hold sanitized garbage (indexes masked into table range, values that
/// cannot fault); the result lane is overwritten by the scalar core.
struct VecRed {
  __m256d T;
  __m128i N;
  __m128i J;
  __m256d Ok;
};

/// exp / exp10 (mirrors reduceExpKind): K = llround(Xd * S16), then the
/// Cody-Waite pair (Xd - K*CWHi) - K*CWLo as two vfnmadd, exactly as the
/// scalar cores compile. std::llround rounds halfway cases away from
/// zero while the vector rounding rounds to nearest-even; the two differ
/// exactly when V - round(V) == +-0.5 (that difference is exact: V and
/// round(V) are within a factor of two of each other, Sterbenz), so those
/// lanes get a +-1 adjustment.
template <ElemFunc F>
inline VecRed reduceExpKindV(__m256d Xd) {
  constexpr bool IsExp = F == ElemFunc::Exp;
  constexpr double Huge = IsExp ? ExpHugeThreshold : Exp10HugeThreshold;
  constexpr double Tiny = IsExp ? ExpTinyThreshold : Exp10TinyThreshold;
  constexpr double Small = IsExp ? ExpSmallThreshold : Exp10SmallThreshold;
  constexpr double S16 =
      IsExp ? tables::SixteenByLn2 : tables::SixteenLog2_10;
  constexpr double CWHi = IsExp ? tables::Ln2By16Hi : tables::Log10_2By16Hi;
  constexpr double CWLo = IsExp ? tables::Ln2By16Lo : tables::Log10_2By16Lo;

  // Ordered compares are false on NaN lanes, so NaN falls back implicitly.
  __m256d Abs =
      _mm256_andnot_pd(broadcast(-0.0), Xd); // |x|
  __m256d Ok = _mm256_and_pd(
      _mm256_and_pd(_mm256_cmp_pd(Xd, broadcast(Huge), _CMP_LT_OQ),
                    _mm256_cmp_pd(Xd, broadcast(Tiny), _CMP_GT_OQ)),
      _mm256_cmp_pd(Abs, broadcast(Small), _CMP_GE_OQ));

  __m256d V = _mm256_mul_pd(Xd, broadcast(S16));
  __m256d Kd =
      _mm256_round_pd(V, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d Diff = _mm256_sub_pd(V, Kd);
  __m256d Zero = _mm256_setzero_pd();
  __m256d One = broadcast(1.0);
  __m256d Up =
      _mm256_and_pd(_mm256_cmp_pd(Diff, broadcast(0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(V, Zero, _CMP_GT_OQ));
  __m256d Down =
      _mm256_and_pd(_mm256_cmp_pd(Diff, broadcast(-0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(V, Zero, _CMP_LT_OQ));
  Kd = _mm256_add_pd(Kd, _mm256_and_pd(Up, One));
  Kd = _mm256_sub_pd(Kd, _mm256_and_pd(Down, One));

  __m256d T1 = _mm256_fnmadd_pd(Kd, broadcast(CWHi), Xd);
  __m128i K = _mm256_cvttpd_epi32(Kd); // exact: Kd integral, |K| < 2^12 ok

  VecRed R;
  R.T = _mm256_fnmadd_pd(Kd, broadcast(CWLo), T1);
  R.N = _mm_srai_epi32(K, 4);
  R.J = _mm_and_si128(K, _mm_set1_epi32(15)); // always in [0, 16)
  R.Ok = Ok;
  return R;
}

/// exp2 (mirrors reduceExp2): K = floor(Xd * 16) and T = Xd - K/16, both
/// exact; integer inputs (exact powers of two) fall back.
inline VecRed reduceExp2V(__m256d Xd) {
  __m256d Floor16 = _mm256_floor_pd(_mm256_mul_pd(Xd, broadcast(16.0)));
  __m256d Abs = _mm256_andnot_pd(broadcast(-0.0), Xd);
  __m256d Ok = _mm256_and_pd(
      _mm256_and_pd(
          _mm256_cmp_pd(Xd, broadcast(Exp2HugeThreshold), _CMP_LT_OQ),
          _mm256_cmp_pd(Xd, broadcast(Exp2TinyThreshold), _CMP_GE_OQ)),
      _mm256_and_pd(
          _mm256_cmp_pd(Abs, broadcast(Exp2SmallThreshold), _CMP_GE_OQ),
          _mm256_cmp_pd(Xd, _mm256_floor_pd(Xd), _CMP_NEQ_OQ)));
  __m128i K = _mm256_cvttpd_epi32(Floor16); // exact on ok lanes (|16x|<2448)

  VecRed R;
  R.T = _mm256_fnmadd_pd(Floor16, broadcast(0x1p-4), Xd); // exact either way
  R.N = _mm_srai_epi32(K, 4);
  R.J = _mm_and_si128(K, _mm_set1_epi32(15));
  R.Ok = Ok;
  return R;
}

/// log family (mirrors reduceLogKind) for positive *normal* inputs; zero,
/// negatives, NaN, inf, and subnormals (the clz renormalization does not
/// vectorize cheaply) fall back. All operations are exact except the final
/// Frac * OneByFTable[J] product, a single rounding both sides share.
inline VecRed reduceLogKindV(__m128i Bits) {
  // Positive normals: 0x00800000 <= bits < 0x7F800000 as signed compares.
  __m128i Ok32 = _mm_and_si128(
      _mm_cmpgt_epi32(Bits, _mm_set1_epi32(0x007fffff)),
      _mm_cmpgt_epi32(_mm_set1_epi32(0x7f800000), Bits));
  __m128i E = _mm_sub_epi32(_mm_srli_epi32(Bits, 23), _mm_set1_epi32(127));
  __m128i Mant = _mm_and_si128(Bits, _mm_set1_epi32(0x7fffff));
  __m128i J = _mm_srli_epi32(Mant, 18); // top 5 mantissa bits, in [0, 32)
  // M = 1 + Mant*2^-23 and F = 1 + J*2^-5: the products and sums are exact,
  // so mul+add equals the scalar's (contracted or not) sequence bit for bit.
  __m256d M = _mm256_fmadd_pd(_mm256_cvtepi32_pd(Mant), broadcast(0x1p-23),
                              broadcast(1.0));
  __m256d Fv = _mm256_fmadd_pd(_mm256_cvtepi32_pd(J), broadcast(0x1p-5),
                               broadcast(1.0));
  __m256d Frac = _mm256_sub_pd(M, Fv); // exact (Sterbenz)
  __m256d T =
      _mm256_mul_pd(Frac, _mm256_i32gather_pd(tables::OneByFTable, J, 8));

  // Table-exact lanes (T == 0 and J == 0: x a power of two) take the
  // scalar path, which resolves the log2 / log / log10 special results.
  __m256d Exact =
      _mm256_and_pd(_mm256_cmp_pd(T, _mm256_setzero_pd(), _CMP_EQ_OQ),
                    widenMask(_mm_cmpeq_epi32(J, _mm_setzero_si128())));

  VecRed R;
  R.T = T;
  R.N = E;
  R.J = J;
  R.Ok = _mm256_andnot_pd(Exact, widenMask(Ok32));
  return R;
}

//===----------------------------------------------------------------------===//
// Piece dispatch and output compensation
//===----------------------------------------------------------------------===//

/// pieceIndex as compiled: the (T - TMin) * Scale product feeds a truncating
/// convert (no contraction is possible: sub feeds mul), then the scalar
/// int clamp becomes max/min against the piece range. Lanes outside the
/// reduced domain (fallback garbage) clamp into range and gather valid,
/// unused data.
template <ElemFunc F>
inline __m128i pieceIndexV(__m256d T, int NumPieces) {
  if (NumPieces <= 1)
    return _mm_setzero_si128();
  constexpr ReducedDomain D = reducedDomainOf(F);
  double Scale = NumPieces / (D.TMax - D.TMin);
  __m256d P = _mm256_mul_pd(_mm256_sub_pd(T, broadcast(D.TMin)),
                            broadcast(Scale));
  __m128i Pi = _mm256_cvttpd_epi32(P); // NaN/overflow -> INT_MIN, clamped
  Pi = _mm_max_epi32(Pi, _mm_setzero_si128());
  Pi = _mm_min_epi32(Pi, _mm_set1_epi32(NumPieces - 1));
  return Pi;
}

/// outputCompensate as compiled. exp family: two plain multiplies (2^n via
/// exponent-field construction). log2: two plain adds. log/log10: the
/// scalar std::fma is a single vfmadd, mirrored, then one plain add.
template <ElemFunc F>
inline __m256d compensateV(__m256d PolyVal, const VecRed &R) {
  if constexpr (isExpFamily(F)) {
    __m256d Scaled =
        _mm256_mul_pd(_mm256_i32gather_pd(tables::Exp2Table, R.J, 8), PolyVal);
    __m256i Pow2 = _mm256_slli_epi64(
        _mm256_cvtepi32_epi64(_mm_add_epi32(R.N, _mm_set1_epi32(1023))), 52);
    return _mm256_mul_pd(Scaled, _mm256_castsi256_pd(Pow2));
  } else if constexpr (F == ElemFunc::Log2) {
    __m256d Nd = _mm256_cvtepi32_pd(R.N);
    return _mm256_add_pd(
        _mm256_add_pd(Nd, _mm256_i32gather_pd(tables::Log2FTable, R.J, 8)),
        PolyVal);
  } else {
    constexpr double C =
        F == ElemFunc::Log ? tables::Ln2 : tables::Log10_2;
    const double *Tab =
        F == ElemFunc::Log ? tables::LnFTable : tables::Log10FTable;
    __m256d Nd = _mm256_cvtepi32_pd(R.N);
    return _mm256_add_pd(
        _mm256_fmadd_pd(Nd, broadcast(C), _mm256_i32gather_pd(Tab, R.J, 8)),
        PolyVal);
  }
}

//===----------------------------------------------------------------------===//
// Knuth adapted forms
//===----------------------------------------------------------------------===//

/// Adapted coefficient I for each lane's piece: a broadcast for the
/// single-piece tables, a two-broadcast blend keyed on the piece mask for
/// exp (the only multi-piece Knuth form; both adapted rows are constant
/// expressions, so each blend is two folded constants and one vblendvpd).
template <const SchemeTable &T>
inline __m256d kcoeff(int I, __m256d PieceOneM) {
  if constexpr (T.NumPieces == 1) {
    (void)PieceOneM;
    return broadcast(T.Adapted[0][I]);
  } else {
    static_assert(T.NumPieces == 2, "vector Knuth handles <= 2 pieces");
    return _mm256_blendv_pd(broadcast(T.Adapted[0][I]),
                            broadcast(T.Adapted[1][I]), PieceOneM);
  }
}

/// The adapted degree, uniform across pieces (0 would mean mixed degrees,
/// which no generated Knuth table has; static_asserted at the use site).
template <const SchemeTable &T> constexpr unsigned knuthDegree() {
  for (int P = 1; P < T.NumPieces; ++P)
    if (T.Degrees[P] != T.Degrees[0])
      return 0;
  return T.Degrees[0];
}

/// evalKnuthOps *as compiled* into the scalar cores, including the output
/// compensation it feeds. GCC's contraction map, read off the shipped
/// objects' disassembly:
///
///   deg 4 (exp):    Y = fma(x+a0, x, a1)
///                   u = fma((x+Y)+a2, Y, a3) * a4        (final mul plain)
///   deg 5 (exp2/10): t = x+a0; Y = t*t
///                   u = fma(fma(Y+a1, Y, a2), x+a3, a4) * a5   (mul plain)
///   deg 6 (log/log2): Z = fma(x+a0, x, a1); W = fma(x+a2, Z, a3)
///                   u = fma((Z+W)+a4, W, a5)
///                   result = fma(u, a6, comp)       <-- final *a6 is FUSED
///
/// Every multiply feeding an add is fused; standalone adds stay plain. The
/// one asymmetry: in the exp family the adapted value feeds a chain of
/// multiplies (table * u * 2^n), so the final *a_d stays a plain vmulsd
/// and the generic compensateV applies -- but in log/log2 it feeds the
/// compensation *add*, and GCC fuses the scale across the inline boundary
/// (result = fma(u, a6, n + Log2FTable[j]), resp. the ln variant), so the
/// degree-6 path computes its own fused compensation here. Operand swaps
/// on commutative adds/muls against the disassembly are bit-neutral. This
/// map is what the dispatcher's parity probe re-proves at resolution time
/// on every host (Batch.cpp).
template <ElemFunc F, const SchemeTable &T>
inline __m256d knuthEvalV(__m128i Piece, const VecRed &R) {
  constexpr unsigned D = knuthDegree<T>();
  static_assert(D == 4 || D == 5 || D == 6, "unsupported adapted degree");
  __m256d PM = _mm256_setzero_pd();
  if constexpr (T.NumPieces > 1)
    PM = widenMask(_mm_cmpgt_epi32(Piece, _mm_setzero_si128()));
  (void)Piece;
  __m256d X = R.T;
  if constexpr (D == 4) {
    static_assert(isExpFamily(F), "degree-4 adapted form is exp only");
    __m256d Y = _mm256_fmadd_pd(_mm256_add_pd(X, kcoeff<T>(0, PM)), X,
                                kcoeff<T>(1, PM));
    __m256d U = _mm256_fmadd_pd(
        _mm256_add_pd(_mm256_add_pd(X, Y), kcoeff<T>(2, PM)), Y,
        kcoeff<T>(3, PM));
    return compensateV<F>(_mm256_mul_pd(U, kcoeff<T>(4, PM)), R);
  } else if constexpr (D == 5) {
    static_assert(isExpFamily(F), "degree-5 adapted form is exp2/exp10 only");
    __m256d T0 = _mm256_add_pd(X, kcoeff<T>(0, PM));
    __m256d Y = _mm256_mul_pd(T0, T0);
    __m256d P = _mm256_fmadd_pd(_mm256_add_pd(Y, kcoeff<T>(1, PM)), Y,
                                kcoeff<T>(2, PM));
    __m256d U = _mm256_fmadd_pd(P, _mm256_add_pd(X, kcoeff<T>(3, PM)),
                                kcoeff<T>(4, PM));
    return compensateV<F>(_mm256_mul_pd(U, kcoeff<T>(5, PM)), R);
  } else {
    static_assert(F == ElemFunc::Log || F == ElemFunc::Log2,
                  "degree-6 adapted form is log/log2 only");
    __m256d Z = _mm256_fmadd_pd(_mm256_add_pd(X, kcoeff<T>(0, PM)), X,
                                kcoeff<T>(1, PM));
    __m256d W = _mm256_fmadd_pd(_mm256_add_pd(X, kcoeff<T>(2, PM)), Z,
                                kcoeff<T>(3, PM));
    __m256d U = _mm256_fmadd_pd(
        _mm256_add_pd(_mm256_add_pd(Z, W), kcoeff<T>(4, PM)), W,
        kcoeff<T>(5, PM));
    __m256d Nd = _mm256_cvtepi32_pd(R.N);
    __m256d Comp;
    if constexpr (F == ElemFunc::Log2)
      Comp = _mm256_add_pd(Nd, _mm256_i32gather_pd(tables::Log2FTable, R.J, 8));
    else
      Comp = _mm256_fmadd_pd(Nd, broadcast(tables::Ln2),
                             _mm256_i32gather_pd(tables::LnFTable, R.J, 8));
    return _mm256_fmadd_pd(U, kcoeff<T>(6, PM), Comp);
  }
}

//===----------------------------------------------------------------------===//
// The kernel frame
//===----------------------------------------------------------------------===//

/// Four lanes: reduce, match the generated special-case list, evaluate the
/// polynomial, compensate, store -- then overwrite every fallback lane
/// with the scalar core's result.
template <ElemFunc F, EvalScheme S, const SchemeTable &T,
          const BatchSchemeTable &B>
inline void block4(double (*Core)(float), const float *In, double *H) {
  __m128 Xf = _mm_loadu_ps(In);
  __m128i XBits = _mm_castps_si128(Xf);
  __m256d Xd = _mm256_cvtps_pd(Xf);

  VecRed R;
  if constexpr (F == ElemFunc::Exp2)
    R = reduceExp2V(Xd);
  else if constexpr (isExpFamily(F))
    R = reduceExpKindV<F>(Xd);
  else
    R = reduceLogKindV(XBits);

  unsigned Fallback = ~static_cast<unsigned>(_mm256_movemask_pd(R.Ok)) & 0xf;
  __m128i Spec = _mm_setzero_si128();
  for (int I = 0; I < T.NumSpecials; ++I)
    Spec = _mm_or_si128(
        Spec, _mm_cmpeq_epi32(
                  XBits, _mm_set1_epi32(static_cast<int>(T.Specials[I].Bits))));
  Fallback |=
      static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(Spec))) & 0xf;

  __m128i Piece = pieceIndexV<F>(R.T, B.NumPieces);
  __m256d Res;
  if constexpr (S == EvalScheme::Knuth)
    Res = knuthEvalV<F, T>(Piece, R);
  else
    Res = compensateV<F>(evalPolyV<S, B>(Piece, R.T), R);
  _mm256_storeu_pd(H, Res);

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
  for (; I + 4 <= N; I += 4)
    block4<F, S, T, B>(Core, In + I, H + I);
  for (; I < N; ++I)
    H[I] = Core(In[I]);
}

/// The Knuth slot: a vector kernel where the variant is generated (log10's
/// Knuth adaptation does not exist; its slot stays null and the dispatcher
/// keeps the scalar loop, which asserts unreachable).
template <ElemFunc F> constexpr BatchKernelFn knuthKernelFor() {
  if constexpr (Gen<F>::Scheme[static_cast<int>(EvalScheme::Knuth)]->Available)
    return kernel<F, EvalScheme::Knuth>;
  else
    return nullptr;
}

//===----------------------------------------------------------------------===//
// Format/mode rounding
//===----------------------------------------------------------------------===//

template <RoundingMode M>
void roundKernel(const double *H, uint64_t *Enc, size_t N, unsigned TotalBits,
                 unsigned ExpBits) {
  const RoundFmt4 F(TotalBits, ExpBits);
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(Enc + I),
        round4<M>(F, _mm256_castpd_si256(_mm256_loadu_pd(H + I))));
  if (I < N) {
    // Masked tail: lanes below N - I live, the rest neither read nor
    // written.
    __m256i Live = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(N - I)),
        _mm256_set_epi64x(3, 2, 1, 0));
    __m256i B = _mm256_castpd_si256(_mm256_maskload_pd(H + I, Live));
    _mm256_maskstore_epi64(reinterpret_cast<long long *>(Enc + I), Live,
                           round4<M>(F, B));
  }
}

} // namespace

#define RFP_AVX2_ROW(F)                                                        \
  {kernel<F, EvalScheme::Horner>, knuthKernelFor<F>(),                         \
   kernel<F, EvalScheme::Estrin>, kernel<F, EvalScheme::EstrinFMA>}

const BatchKernelFn rfp::libm::detail::AVX2BatchKernels[6][4] = {
    RFP_AVX2_ROW(ElemFunc::Exp),   RFP_AVX2_ROW(ElemFunc::Exp2),
    RFP_AVX2_ROW(ElemFunc::Exp10), RFP_AVX2_ROW(ElemFunc::Log),
    RFP_AVX2_ROW(ElemFunc::Log2),  RFP_AVX2_ROW(ElemFunc::Log10),
};

#undef RFP_AVX2_ROW

const RoundKernelFn rfp::libm::detail::AVX2RoundKernels[6] = {
    roundKernel<RoundingMode::NearestEven>,
    roundKernel<RoundingMode::NearestAway>,
    roundKernel<RoundingMode::TowardZero>,
    roundKernel<RoundingMode::Upward>,
    roundKernel<RoundingMode::Downward>,
    roundKernel<RoundingMode::ToOdd>,
};
