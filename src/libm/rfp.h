//===- libm/rfp.h - Unified public evaluation API --------------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one public entry surface of the shipped math library. Everything a
/// caller can ask for is named by a single enum-driven key:
///
///   VariantKey K{ElemFunc::Exp, EvalScheme::EstrinFMA,
///                FPFormat::bfloat16(), RoundingMode::Upward};
///   EvalResult R = rfp::eval(K, 0.7f);   // R.H (double), R.Enc (encoding)
///
/// and the whole compiled (function x scheme x format x mode) matrix is
/// iterable with rfp::variants(). The serving layer (serve/Serve.h), the
/// batch API and the verification engine (verify/Verify.h) all name
/// variants with this same VariantKey, so a variant means the same thing
/// everywhere.
///
/// Entry points:
///
///   * eval(K, x)            -- one input, H result + rounded encoding.
///   * evalH(F, S, x)        -- one input, H (double) result only.
///   * evalBatch(K, ...)     -- array form, rounded encodings (and
///                              optionally the H results).
///   * evalBatchH(F, S, ...) -- array form, H results only; an overload
///                              pins the batch kernel ISA for testing.
///   * variants(...)         -- iterate every compiled VariantKey.
///
/// The H contract (inherited from the cores in rlibm.h): the returned
/// double has the RLibm-All property -- rounding it to ANY FP(k, 8) format
/// with 10 <= k <= 32 under ANY of the five IEEE modes yields the
/// correctly rounded f(x) for that format and mode. Enc is exactly
/// roundResult(H, K.Format, K.Mode).
///
/// The MultiRound contract (RLibm-MultiRound's scenario): every entry
/// point in this header returns bit-identical results regardless of the
/// caller's dynamic FP rounding mode. Applications that run under
/// fesetround(FE_UPWARD) (interval arithmetic, error analysis) get the
/// same correctly rounded encodings as everyone else: each call saves the
/// dynamic environment, evaluates under round-to-nearest, and restores it
/// on the way out. The raw cores in rlibm.h do NOT carry this guarantee
/// -- their polynomial arithmetic follows the ambient mode -- which is
/// one of the two reasons to prefer this surface. The invariant is pinned
/// by CrossRoundingTest and swept at scale by the verification engine's
/// FE lanes (tools/verify --fe-lanes).
///
/// Format/mode rounding is integer-only -- FPFormat::roundDouble reads the
/// double's bits, and the batch forms round whole arrays with
/// libm::roundBatch's lane-parallel kernels -- and never consults the
/// dynamic environment, so K.Mode selects the *target* IEEE rounding of
/// the result and is entirely independent of fesetround.
///
/// Underneath: the free functions in rlibm.h (`exp_estrin_fma`,
/// `evalCore`, `roundResult`) and the raw array entry points in Batch.h
/// are the implementation tier -- the cores are what the paper benchmarks
/// and what the tests and the verify engine referee against -- but
/// callers use this header (DESIGN.md, "Unified public API").
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_RFP_H
#define RFP_LIBM_RFP_H

#include "fp/FPFormat.h"
#include "libm/Batch.h"
#include "libm/rlibm.h"
#include "poly/EvalScheme.h"
#include "support/ElemFunc.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace rfp {

//===----------------------------------------------------------------------===//
// VariantKey: the one name for a shipped variant.
//===----------------------------------------------------------------------===//

/// Names one (function, scheme, output format, rounding mode) combination.
/// This is the unit the library ships, serves, and verifies.
struct VariantKey {
  ElemFunc Func = ElemFunc::Exp;
  EvalScheme Scheme = EvalScheme::EstrinFMA;
  FPFormat Format = FPFormat::float32();
  RoundingMode Mode = RoundingMode::NearestEven;

  bool operator==(const VariantKey &RHS) const {
    return Func == RHS.Func && Scheme == RHS.Scheme && Format == RHS.Format &&
           Mode == RHS.Mode;
  }
  bool operator!=(const VariantKey &RHS) const { return !(*this == RHS); }
};

/// Diagnostic spelling: "exp/estrin-fma/fp19/ru".
std::string variantKeyName(const VariantKey &K);

/// True when the integrated generation loop produced this (func, scheme)
/// implementation (the paper's Table 1 reports N/A for RLibm-Knuth on ln
/// and log10). Format and mode never affect availability: one polynomial
/// serves every format and mode.
bool available(ElemFunc F, EvalScheme S);
inline bool available(const VariantKey &K) {
  return available(K.Func, K.Scheme);
}

//===----------------------------------------------------------------------===//
// Scalar evaluation.
//===----------------------------------------------------------------------===//

/// What eval() delivers for one input.
struct EvalResult {
  /// The RLibm-All H value: bit-identical to `<func>_<scheme>(x)` under
  /// the default FP environment.
  double H = 0.0;
  /// roundResult(H, Format, Mode): an encoding of the key's format.
  uint64_t Enc = 0;
};

/// The H (double) result of one core, independent of the caller's dynamic
/// FP rounding mode. Asserts availability.
double evalH(ElemFunc F, EvalScheme S, float X);

/// Full evaluation of one variant for one input.
EvalResult eval(const VariantKey &K, float X);
inline EvalResult eval(ElemFunc F, EvalScheme S, const FPFormat &Fmt,
                       RoundingMode M, float X) {
  return eval(VariantKey{F, S, Fmt, M}, X);
}

//===----------------------------------------------------------------------===//
// Batch evaluation.
//===----------------------------------------------------------------------===//

/// Array H results over In[0..N), SIMD-backed (libm/Batch.h dispatch),
/// bit-identical per element to evalH and FE-mode independent. In and H
/// must not overlap.
void evalBatchH(ElemFunc F, EvalScheme S, const float *In, double *H,
                size_t N);

/// Same, with the batch kernel ISA pinned (testing / verification). An
/// ISA that is not compiled in or not supported falls back to the scalar
/// loop, exactly as libm::evalBatchWithISA does.
void evalBatchH(libm::BatchISA ISA, ElemFunc F, EvalScheme S, const float *In,
                double *H, size_t N);

/// Array form of eval(): writes Enc[0..N) (encodings of K.Format under
/// K.Mode, rounded with libm::roundBatch) and, when \p H is non-null, the
/// H results as well. The H staging for the null case is internal and
/// chunked, so N is unbounded.
void evalBatch(const VariantKey &K, const float *In, uint64_t *Enc, size_t N,
               double *H = nullptr);

//===----------------------------------------------------------------------===//
// variants(): the compiled matrix.
//===----------------------------------------------------------------------===//

/// Iterates every compiled VariantKey: available (func, scheme) pairs x
/// FP(k, 8) formats with MinBits <= k <= MaxBits x the five standard
/// rounding modes, in deterministic (func, scheme, bits, mode) order.
class VariantRange {
public:
  VariantRange(unsigned MinBits, unsigned MaxBits)
      : MinBits(MinBits), MaxBits(MaxBits) {}

  class iterator {
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = VariantKey;
    using difference_type = std::ptrdiff_t;
    using pointer = const VariantKey *;
    using reference = VariantKey;

    iterator() = default;
    iterator(unsigned FuncIdx, unsigned MinBits, unsigned MaxBits)
        : FuncIdx(FuncIdx), Bits(MinBits), MinBits(MinBits), MaxBits(MaxBits) {
      skipUnavailable();
    }

    VariantKey operator*() const {
      return VariantKey{AllElemFuncs[FuncIdx], AllEvalSchemes[SchemeIdx],
                        FPFormat::withBits(Bits),
                        StandardRoundingModes[ModeIdx]};
    }

    iterator &operator++() {
      if (++ModeIdx < 5)
        return *this;
      ModeIdx = 0;
      if (++Bits <= MaxBits)
        return *this;
      Bits = MinBits;
      ++SchemeIdx;
      skipUnavailable();
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++*this;
      return Tmp;
    }

    bool operator==(const iterator &RHS) const {
      return FuncIdx == RHS.FuncIdx && SchemeIdx == RHS.SchemeIdx &&
             Bits == RHS.Bits && ModeIdx == RHS.ModeIdx;
    }
    bool operator!=(const iterator &RHS) const { return !(*this == RHS); }

  private:
    /// Advances (FuncIdx, SchemeIdx) past combinations the generator did
    /// not produce; normalizes the end state to (6, 0).
    void skipUnavailable() {
      while (FuncIdx < 6) {
        if (SchemeIdx >= 4) {
          SchemeIdx = 0;
          ++FuncIdx;
          continue;
        }
        if (available(AllElemFuncs[FuncIdx], AllEvalSchemes[SchemeIdx]))
          return;
        ++SchemeIdx;
      }
      SchemeIdx = 0;
    }

    unsigned FuncIdx = 6; // 6 = end
    unsigned SchemeIdx = 0;
    unsigned Bits = 0;
    unsigned ModeIdx = 0;
    unsigned MinBits = 0;
    unsigned MaxBits = 0;
  };

  iterator begin() const { return iterator(0, MinBits, MaxBits); }
  iterator end() const { return iterator(6, MinBits, MaxBits); }

private:
  unsigned MinBits;
  unsigned MaxBits;
};

/// All compiled variants over the paper's full format family (10..32 bit).
inline VariantRange variants() { return VariantRange(10, 32); }
/// Restricted to MinBits <= total bits <= MaxBits (both clamped to the
/// supported 10..32 family).
VariantRange variants(unsigned MinBits, unsigned MaxBits);

} // namespace rfp

#endif // RFP_LIBM_RFP_H
