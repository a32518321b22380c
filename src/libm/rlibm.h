//===- libm/rlibm.h - Public API of the generated math library -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 24 correctly rounded elementary-function implementations the paper's
/// artifact ships: {exp, exp2, exp10, log, log2, log10} x {Horner (the
/// RLibm baseline), Knuth, Estrin, Estrin+FMA}.
///
/// Each `<func>_<scheme>` entry point returns the result in H = double.
/// That double has the RLibm-All property: rounding it to ANY FP(k, 8)
/// format with 10 <= k <= 32 under ANY of the five IEEE rounding modes
/// yields the correctly rounded f(x) for that format and mode. Use
/// \c roundResult (or a plain float cast for float32 round-to-nearest).
///
/// Availability: a variant can be absent when the integrated generation
/// loop could not produce it (the paper's Table 1 reports N/A for
/// RLibm-Knuth on ln and log10); query \c variantInfo.
///
/// Naming policy. The public surface is the unified rfp:: API in
/// libm/rfp.h -- `rfp::eval` / `rfp::evalBatch` over a `VariantKey`, with
/// the MultiRound dynamic-FP-environment guarantee the raw cores do not
/// carry. Everything in THIS header is the implementation tier underneath
/// it (DESIGN.md, "Unified public API"):
///
///   * `rfp::libm::<func>_<scheme>(float) -> double` -- the 24 scalar
///     cores. Lower-case function and scheme spelled out (`exp2_estrin_fma`).
///     These produce H and never round; they are what the paper benchmarks
///     and what the rfp:: surface is defined in terms of. New *callers*
///     belong on rfp::evalH.
///   * `evalCore` / `roundResult` -- enum-driven dispatch (rfp::eval =
///     FE-guarded evalCore + roundResult). They remain the referees the
///     tests and the verify engine compare against.
///   * The batch entry points (libm/Batch.h) mirror this tier for arrays;
///     their public forms are rfp::evalBatch / rfp::evalBatchH.
///
/// Do not add new spellings to this tier.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_RLIBM_H
#define RFP_LIBM_RLIBM_H

#include "fp/FPFormat.h"
#include "poly/EvalScheme.h"
#include "support/ElemFunc.h"

namespace rfp {
namespace libm {

// The 24 H-producing cores.
double exp_horner(float X);
double exp_knuth(float X);
double exp_estrin(float X);
double exp_estrin_fma(float X);

double exp2_horner(float X);
double exp2_knuth(float X);
double exp2_estrin(float X);
double exp2_estrin_fma(float X);

double exp10_horner(float X);
double exp10_knuth(float X);
double exp10_estrin(float X);
double exp10_estrin_fma(float X);

double log_horner(float X);
double log_knuth(float X);
double log_estrin(float X);
double log_estrin_fma(float X);

double log2_horner(float X);
double log2_knuth(float X);
double log2_estrin(float X);
double log2_estrin_fma(float X);

double log10_horner(float X);
double log10_knuth(float X);
double log10_estrin(float X);
double log10_estrin_fma(float X);

/// Dynamic dispatch over the 24 implementations. Asserts availability.
double evalCore(ElemFunc F, EvalScheme S, float X);

/// Rounds an H result into the given format under the given mode
/// (multi-representation / multi-rounding-mode use). Returns an encoding
/// of \p Fmt.
uint64_t roundResult(double H, const FPFormat &Fmt, RoundingMode M);

/// Generation metadata for one implementation (the paper's Table 1 rows).
struct VariantInfo {
  bool Available = false;
  int NumPieces = 0;
  unsigned MaxDegree = 0;
  int NumSpecials = 0;
  unsigned LPSolves = 0;
  unsigned LoopIterations = 0;
  uint64_t GenInputs = 0;
  uint64_t GenConstraints = 0;
};
VariantInfo variantInfo(ElemFunc F, EvalScheme S);

} // namespace libm
} // namespace rfp

#endif // RFP_LIBM_RLIBM_H
