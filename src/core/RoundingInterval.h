//===- core/RoundingInterval.h - Rounding-interval machinery ---*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval computations at the heart of the RLibm approach:
///
///  * roundingIntervalRO: given the oracle's round-to-odd FP34 result y,
///    the set of doubles v with RO_34(v) == y. For an odd-encoded y this is
///    the open interval between y's FP34 neighbours (paper Figure 2); for
///    an even-encoded y (only possible when f(x) is exactly representable)
///    it is the singleton {y}.
///
///  * inferPolyInterval: pushes a result interval backwards through the
///    output compensation to obtain the constraint interval for the
///    polynomial value at the reduced input, verifying and adjusting the
///    boundaries within 128 nextafter steps as the paper's CalculateL0
///    does with AdjHigher/AdjLower (Section 2.1 and Figure 9 of the POPL
///    paper reproduced in Figure 1 here). The compensation is monotone, so
///    each bound is found by bisection inside that window, and it is the
///    double a walk of one step at a time stops at.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_CORE_ROUNDINGINTERVAL_H
#define RFP_CORE_ROUNDINGINTERVAL_H

#include "fp/FPFormat.h"
#include "libm/RangeReduction.h"

namespace rfp {

/// A closed interval of doubles in the representation H.
struct HInterval {
  double Lo = 0.0;
  double Hi = 0.0;
  bool Valid = false;
  /// inferPolyInterval only: a bound stopped at the adjustment's 128-step
  /// cap, so the interval may be narrower than the set of doubles that
  /// compensate into the target.
  bool Capped = false;

  bool isSingleton() const { return Valid && Lo == Hi; }
};

/// Computes the set of doubles that round (round-to-odd, format \p F) to
/// the finite value \p Y (which must be representable in F). The result is
/// closed in double space; endpoints next to the format's infinities clamp
/// to the double range.
HInterval roundingIntervalRO(double Y, const FPFormat &F);

/// Same interval, but keyed by Y's finite \p F encoding directly. The
/// oracle hands encodings over, so the prepare sweep calls this form and
/// skips re-rounding the decoded value (roundingIntervalRO delegates
/// here after one roundDouble).
HInterval roundingIntervalROEnc(uint64_t Enc, const FPFormat &F);

/// Infers [Alpha, Beta] such that outputCompensate(F, v, R) lands in
/// [Lo, Hi] for every double v in [Alpha, Beta]. Each bound starts at the
/// approximate inverse of the compensation and moves at most 128 doubles:
/// outward while the next double still compensates into [Lo, Hi], or
/// inward until one does. An outward move that reaches the cap stops there
/// (Capped), so the interval is maximal only when neither bound is capped.
/// Log-family bounds are almost always capped: their compensation adds a
/// table value that absorbs far more than 128 steps of the polynomial
/// value. Exp-family bounds rarely are. Returns an invalid interval when no
/// double within the window compensates into [Lo, Hi] (the paper then
/// treats the input as a special case).
HInterval inferPolyInterval(ElemFunc F, const libm::Reduction &R, double Lo,
                            double Hi);

} // namespace rfp

#endif // RFP_CORE_ROUNDINGINTERVAL_H
