//===- oracle/Oracle.h - Correctly rounded result oracle -------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle of the RLibm pipeline: given an input x, produce the correctly
/// rounded value of f(x) in an arbitrary FP(n, E) format under any rounding
/// mode, including round-to-odd. The paper ships 12 GB of pre-computed
/// oracle files produced with MPFR; we compute results on demand with the
/// MPFloat substrate plus Ziv's strategy, with exactly representable results
/// detected algebraically (they are the only values on which Ziv's widening
/// cannot terminate).
///
/// Format rounding (overflow, gradual underflow) is applied through
/// FPFormat::roundRational on the error interval of the approximation, so
/// the returned encoding is correct even in the subnormal and overflow
/// ranges of the target format.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_ORACLE_ORACLE_H
#define RFP_ORACLE_ORACLE_H

#include "fp/FPFormat.h"
#include "support/ElemFunc.h"

namespace rfp {

/// Computes correctly rounded results of the six elementary functions in
/// arbitrary formats/modes.
class Oracle {
public:
  /// Which side of a format's range an exp-family result saturates on.
  enum class Saturation { None, Overflow, Underflow };

  /// The exp-family clamp of eval: when the base-2 exponent X * log2(b) of
  /// b^X lies more than two binades above \p F's largest exponent, or more
  /// than two below its smallest subnormal, only the side matters, and
  /// eval returns saturatedResult instead of running the MP path (which
  /// would otherwise materialize astronomically long integers, 2^x for
  /// x ~ 1e14). The certified fast path (oracle/OracleFast.h) settles the
  /// same classes in closed form, so the boundary is defined only here.
  static Saturation expSaturation(ElemFunc Fn, double X, const FPFormat &F);

  /// expSaturation's compare as data: with R = X * Log2Scale (one double
  /// multiply), R > Over overflows and R < Under underflows. The fast
  /// oracle's lane kernels evaluate the same compare on every lane.
  struct SaturationClamp {
    double Log2Scale, Over, Under;
  };
  static SaturationClamp expSaturationClamp(ElemFunc Fn, const FPFormat &F);

  /// What eval returns for an input that saturates on side \p S: a power
  /// of two two binades beyond the clamp, rounded into \p F under \p M.
  static uint64_t saturatedResult(Saturation S, const FPFormat &F,
                                  RoundingMode M);

  /// Correctly rounded f(X) as an encoding of \p F under mode \p M.
  /// X is interpreted as an exact real value (pass the decoded input).
  /// Handles the full domain: NaN, infinities, out-of-domain inputs,
  /// overflow and underflow.
  static uint64_t eval(ElemFunc Fn, double X, const FPFormat &F,
                       RoundingMode M);

  /// Convenience: eval followed by decode.
  static double evalValue(ElemFunc Fn, double X, const FPFormat &F,
                          RoundingMode M) {
    return F.decode(eval(Fn, X, F, M));
  }

  /// The RLibm-All oracle: correctly rounded f(X) in FP(34, 8) under
  /// round-to-odd (the paper's 34-bit round-to-odd oracle result).
  static double roundToOdd34(ElemFunc Fn, double X) {
    return evalValue(Fn, X, FPFormat::fp34(), RoundingMode::ToOdd);
  }
};

} // namespace rfp

#endif // RFP_ORACLE_ORACLE_H
